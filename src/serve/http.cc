#include "serve/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <sstream>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"

namespace dirsim
{

namespace
{

std::string
toLower(std::string text)
{
    std::transform(text.begin(), text.end(), text.begin(),
                   [](unsigned char c) {
                       return static_cast<char>(std::tolower(c));
                   });
    return text;
}

std::string
trimmed(const std::string &text)
{
    const std::size_t first = text.find_first_not_of(" \t\r");
    if (first == std::string::npos)
        return {};
    const std::size_t last = text.find_last_not_of(" \t\r");
    return text.substr(first, last - first + 1);
}

} // namespace

const std::string *
HttpRequest::header(std::string_view name) const
{
    for (const auto &[key, value] : headers) {
        if (key == name)
            return &value;
    }
    return nullptr;
}

std::string
HttpRequest::path() const
{
    const std::size_t mark = target.find('?');
    return mark == std::string::npos ? target : target.substr(0, mark);
}

std::string
HttpRequest::query(std::string_view key) const
{
    const std::size_t mark = target.find('?');
    if (mark == std::string::npos)
        return {};
    std::istringstream params(target.substr(mark + 1));
    std::string pair;
    while (std::getline(params, pair, '&')) {
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos)
            continue;
        if (pair.compare(0, eq, key) == 0)
            return pair.substr(eq + 1);
    }
    return {};
}

const char *
httpStatusText(int status)
{
    switch (status) {
      case 200: return "OK";
      case 202: return "Accepted";
      case 204: return "No Content";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 409: return "Conflict";
      case 413: return "Payload Too Large";
      case 429: return "Too Many Requests";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default:  return "Unknown";
    }
}

bool
HttpConnection::readRequest(HttpRequest &out, std::string &error)
{
    error.clear();
    // Accumulate until the blank line ending the header block.
    std::size_t header_end;
    while ((header_end = buffer.find("\r\n\r\n"))
           == std::string::npos) {
        if (buffer.size() > httpMaxHeaderBytes) {
            error = "request headers exceed "
                + std::to_string(httpMaxHeaderBytes) + " bytes";
            return false;
        }
        char chunk[4096];
        const ssize_t got = ::recv(sock, chunk, sizeof(chunk), 0);
        if (got <= 0) {
            if (!buffer.empty())
                error = "connection closed mid-request";
            return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
    }

    const std::string head = buffer.substr(0, header_end);
    buffer.erase(0, header_end + 4);

    std::istringstream lines(head);
    std::string line;
    if (!std::getline(lines, line)) {
        error = "empty request";
        return false;
    }
    {
        std::istringstream request_line(trimmed(line));
        if (!(request_line >> out.method >> out.target
              >> out.version)) {
            error = "malformed request line '" + trimmed(line) + "'";
            return false;
        }
    }
    out.headers.clear();
    out.body.clear();
    while (std::getline(lines, line)) {
        line = trimmed(line);
        if (line.empty())
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos) {
            error = "malformed header '" + line + "'";
            return false;
        }
        out.headers.emplace_back(
            toLower(trimmed(line.substr(0, colon))),
            trimmed(line.substr(colon + 1)));
    }

    std::size_t content_length = 0;
    if (const std::string *value = out.header("content-length")) {
        try {
            content_length = parseDecimal(*value, "Content-Length");
        } catch (const UsageError &parse_error) {
            error = parse_error.what();
            return false;
        }
    }
    if (content_length > httpMaxBodyBytes) {
        error = "request body exceeds "
            + std::to_string(httpMaxBodyBytes) + " bytes";
        return false;
    }
    while (buffer.size() < content_length) {
        char chunk[4096];
        const ssize_t got = ::recv(sock, chunk, sizeof(chunk), 0);
        if (got <= 0) {
            error = "connection closed mid-body";
            return false;
        }
        buffer.append(chunk, static_cast<std::size_t>(got));
    }
    out.body = buffer.substr(0, content_length);
    buffer.erase(0, content_length);
    return true;
}

bool
HttpConnection::sendAll(const void *data, std::size_t size)
{
    const char *bytes = static_cast<const char *>(data);
    while (size > 0) {
        const ssize_t sent =
            ::send(sock, bytes, size, MSG_NOSIGNAL);
        if (sent <= 0)
            return false;
        bytes += sent;
        size -= static_cast<std::size_t>(sent);
    }
    return true;
}

void
HttpConnection::sendResponse(const HttpResponse &response)
{
    std::ostringstream out;
    out << "HTTP/1.1 " << response.status << ' '
        << httpStatusText(response.status) << "\r\n"
        << "Content-Type: " << response.contentType << "\r\n"
        << "Content-Length: " << response.body.size() << "\r\n"
        << "Connection: close\r\n";
    for (const auto &[name, value] : response.headers)
        out << name << ": " << value << "\r\n";
    out << "\r\n" << response.body;
    const std::string wire = out.str();
    sendAll(wire.data(), wire.size());
}

void
HttpConnection::beginStream(int status,
                            const std::string &content_type)
{
    std::ostringstream out;
    out << "HTTP/1.1 " << status << ' ' << httpStatusText(status)
        << "\r\n"
        << "Content-Type: " << content_type << "\r\n"
        << "Connection: close\r\n\r\n";
    const std::string wire = out.str();
    sendAll(wire.data(), wire.size());
}

bool
HttpConnection::sendLine(const std::string &line)
{
    std::string wire = line;
    wire.push_back('\n');
    return sendAll(wire.data(), wire.size());
}

void
HttpConnection::close()
{
    if (sock >= 0) {
        ::close(sock);
        sock = -1;
    }
}

HttpListener::HttpListener(std::uint16_t port_arg)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    fatalIf(fd < 0, "cannot create listening socket: ",
            std::strerror(errno));
    const int enable = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &enable,
                 sizeof(enable));

    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(port_arg);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&address),
               sizeof(address))
        != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        fatal("cannot bind 127.0.0.1:", port_arg, ": ", reason);
    }
    if (::listen(fd, 64) != 0) {
        const std::string reason = std::strerror(errno);
        ::close(fd);
        fatal("cannot listen on 127.0.0.1:", port_arg, ": ", reason);
    }

    sockaddr_in bound{};
    socklen_t bound_size = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&bound),
                      &bound_size)
        == 0)
        boundPort = ntohs(bound.sin_port);
    else
        boundPort = port_arg;
    sock.store(fd, std::memory_order_release);
}

HttpListener::~HttpListener()
{
    shutdown();
}

int
HttpListener::acceptConnection()
{
    for (;;) {
        const int listen_fd = sock.load(std::memory_order_acquire);
        if (listen_fd < 0)
            return -1;
        const int fd = ::accept(listen_fd, nullptr, nullptr);
        if (fd >= 0)
            return fd;
        if (errno == EINTR)
            continue;
        return -1; // shut down (or unrecoverable)
    }
}

void
HttpListener::shutdown()
{
    // exchange() makes concurrent shutdown() calls idempotent: only
    // one caller sees the live fd. ::shutdown() wakes a blocked
    // ::accept() (close() alone does not, on Linux).
    const int fd = sock.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
    }
}

} // namespace dirsim
