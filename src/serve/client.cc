#include "serve/client.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "serve/http.hh"

namespace dirsim
{

namespace
{

/** RAII client socket connected to 127.0.0.1:port. */
class ClientSocket
{
  public:
    explicit ClientSocket(std::uint16_t port)
    {
        sock = ::socket(AF_INET, SOCK_STREAM, 0);
        fatalIf(sock < 0, "cannot create client socket: ",
                std::strerror(errno));
        sockaddr_in address{};
        address.sin_family = AF_INET;
        address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        address.sin_port = htons(port);
        if (::connect(sock,
                      reinterpret_cast<sockaddr *>(&address),
                      sizeof(address))
            != 0) {
            const std::string reason = std::strerror(errno);
            ::close(sock);
            sock = -1;
            fatal("cannot connect to 127.0.0.1:", port, ": ",
                  reason);
        }
    }

    ~ClientSocket()
    {
        if (sock >= 0)
            ::close(sock);
    }

    ClientSocket(const ClientSocket &) = delete;
    ClientSocket &operator=(const ClientSocket &) = delete;

    void
    sendAll(const std::string &wire)
    {
        const char *bytes = wire.data();
        std::size_t left = wire.size();
        while (left > 0) {
            const ssize_t sent =
                ::send(sock, bytes, left, MSG_NOSIGNAL);
            fatalIf(sent <= 0, "request send failed: ",
                    std::strerror(errno));
            bytes += sent;
            left -= static_cast<std::size_t>(sent);
        }
    }

    /** @return bytes read; 0 on EOF */
    std::size_t
    readSome(std::string &into)
    {
        char chunk[4096];
        const ssize_t got = ::recv(sock, chunk, sizeof(chunk), 0);
        if (got <= 0)
            return 0;
        into.append(chunk, static_cast<std::size_t>(got));
        return static_cast<std::size_t>(got);
    }

  private:
    int sock = -1;
};

std::string
requestWire(
    const std::string &method, const std::string &target,
    const std::string &body,
    const std::vector<std::pair<std::string, std::string>> &headers)
{
    std::ostringstream out;
    out << method << ' ' << target << " HTTP/1.1\r\n"
        << "Host: 127.0.0.1\r\n";
    for (const auto &[name, value] : headers)
        out << name << ": " << value << "\r\n";
    if (!body.empty() || method == "POST")
        out << "Content-Length: " << body.size() << "\r\n";
    out << "Connection: close\r\n\r\n" << body;
    return out.str();
}

/** Parse status line + headers out of @p head. */
int
parseHead(
    const std::string &head,
    std::vector<std::pair<std::string, std::string>> &headers)
{
    std::istringstream lines(head);
    std::string line;
    fatalIf(!std::getline(lines, line),
            "empty response from daemon");
    int status = 0;
    {
        std::istringstream status_line(line);
        std::string version;
        fatalIf(!(status_line >> version >> status),
                "malformed response status line '", line, "'");
    }
    while (std::getline(lines, line)) {
        while (!line.empty()
               && (line.back() == '\r' || line.back() == '\n'))
            line.pop_back();
        if (line.empty())
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        std::string name = line.substr(0, colon);
        std::transform(name.begin(), name.end(), name.begin(),
                       [](unsigned char c) {
                           return static_cast<char>(
                               std::tolower(c));
                       });
        std::size_t value_start = colon + 1;
        while (value_start < line.size()
               && line[value_start] == ' ')
            ++value_start;
        headers.emplace_back(std::move(name),
                             line.substr(value_start));
    }
    return status;
}

/** Read until the header/body separator; body bytes already read
 *  land in @p body. */
int
readHead(ClientSocket &sock,
         std::vector<std::pair<std::string, std::string>> &headers,
         std::string &body)
{
    std::string data;
    std::size_t head_end;
    while ((head_end = data.find("\r\n\r\n")) == std::string::npos) {
        fatalIf(data.size() > httpMaxHeaderBytes,
                "response headers exceed ", httpMaxHeaderBytes,
                " bytes");
        fatalIf(sock.readSome(data) == 0,
                "daemon closed the connection mid-response");
    }
    const int status = parseHead(data.substr(0, head_end), headers);
    body = data.substr(head_end + 4);
    return status;
}

const std::string *
findHeader(
    const std::vector<std::pair<std::string, std::string>> &headers,
    std::string_view name)
{
    for (const auto &[key, value] : headers) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

} // namespace

HttpClientResponse
httpRequest(
    std::uint16_t port, const std::string &method,
    const std::string &target, const std::string &body,
    const std::vector<std::pair<std::string, std::string>> &headers)
{
    ClientSocket sock(port);
    sock.sendAll(requestWire(method, target, body, headers));

    HttpClientResponse response;
    response.status =
        readHead(sock, response.headers, response.body);
    if (const std::string *length =
            findHeader(response.headers, "content-length")) {
        const std::size_t expect =
            parseDecimal(*length, "Content-Length");
        fatalIf(expect > httpMaxBodyBytes,
                "response body exceeds ", httpMaxBodyBytes,
                " bytes");
        while (response.body.size() < expect) {
            fatalIf(sock.readSome(response.body) == 0,
                    "daemon closed the connection mid-body");
        }
        response.body.resize(expect);
    } else {
        // No length: body runs until close.
        while (sock.readSome(response.body) != 0) {
            fatalIf(response.body.size() > httpMaxBodyBytes,
                    "response body exceeds ", httpMaxBodyBytes,
                    " bytes");
        }
    }
    return response;
}

int
httpStreamLines(
    std::uint16_t port, const std::string &target,
    const std::function<bool(const std::string &)> &on_line,
    const std::vector<std::pair<std::string, std::string>> &headers)
{
    ClientSocket sock(port);
    sock.sendAll(requestWire("GET", target, {}, headers));

    std::vector<std::pair<std::string, std::string>> response_headers;
    std::string pending;
    const int status = readHead(sock, response_headers, pending);

    bool more = true;
    const auto drain = [&]() {
        std::size_t newline;
        while (more
               && (newline = pending.find('\n'))
                   != std::string::npos) {
            std::string line = pending.substr(0, newline);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            pending.erase(0, newline + 1);
            more = on_line(line);
        }
    };
    drain();
    while (more && sock.readSome(pending) != 0)
        drain();
    // A final unterminated fragment still counts as a line.
    if (more && !pending.empty())
        on_line(pending);
    return status;
}

} // namespace dirsim
